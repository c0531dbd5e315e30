//! Golden diagnostics: one minimal failing input per diagnostic code.
//!
//! Every stable `CS-…` code the checker can emit is exercised here from
//! a smallest-possible defective input, asserting the exact code and —
//! where the checker reports one — the exact location. A code that stops
//! firing (or fires from the wrong place) fails this suite, which is
//! what makes the codes safe to grep for in CI logs and bug reports.

use cachescope_analyze::{AnalyzeConfig, Analyzer};
use cachescope_campaign::Cell;
use cachescope_check::{
    bounds, campaign, chunk, diag::Diagnostic, fuzz, lifecycle, pmu, profile, selflint, trace, wire,
};
use cachescope_core::{FaultConfig, SamplerConfig, SearchConfig, TechniqueConfig};
use cachescope_obs::json::{self, Json};
use cachescope_sim::{Event, EventChunk, MemRef, ObjectDecl, RunLimit};
use cachescope_workloads::spec::Scale;

fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

fn check_text_trace(body: &str) -> Vec<Diagnostic> {
    // Line 1 is the magic, line 2 the program name; records start at 3.
    let text = format!("cachescope-trace 1\nN golden\n{body}");
    trace::check_trace(text.as_bytes(), "golden")
}

// --- CS-W: allocation lifecycle and object extents ---------------------

#[test]
fn w001_alloc_over_live_block() {
    let diags = check_text_trace("M 1000 64 a\nM 1020 64 b\nF 1000\nF 1020\n");
    assert_eq!(codes(&diags), ["CS-W001"]);
    assert_eq!(diags[0].line, 4, "reported at the second alloc's line");
}

#[test]
fn w002_free_without_alloc() {
    let diags = check_text_trace("F 1000\n");
    assert_eq!(codes(&diags), ["CS-W002"]);
    assert_eq!(diags[0].line, 3);
}

#[test]
fn w003_access_into_freed_block() {
    let diags = check_text_trace("M 1000 64 a\nF 1000\nA 1000 8 R\n");
    assert_eq!(codes(&diags), ["CS-W003"]);
    assert_eq!(diags[0].line, 5);
}

#[test]
fn w004_leak_at_natural_exit() {
    let diags = check_text_trace("M 1000 64 a\n");
    assert_eq!(codes(&diags), ["CS-W004"]);
    assert_eq!(
        diags[0].severity,
        cachescope_check::Severity::Warning,
        "leaks warn rather than fail: programs may legitimately exit dirty"
    );
}

#[test]
fn w005_overlapping_static_extents() {
    let statics = [
        ObjectDecl::global("a", 0x1000, 64),
        ObjectDecl::global("b", 0x1020, 64),
    ];
    let lc = lifecycle::LifecycleChecker::new("golden", &statics);
    assert_eq!(codes(&lc.finish(true)), ["CS-W005"]);
}

#[test]
fn w006_zero_size_object() {
    let statics = [ObjectDecl::global("z", 0x1000, 0)];
    let lc = lifecycle::LifecycleChecker::new("golden", &statics);
    let diags = lc.finish(true);
    assert_eq!(codes(&diags), ["CS-W006"]);
    assert_eq!(diags[0].severity, cachescope_check::Severity::Warning);
}

// --- CS-C: chunk encoding ---------------------------------------------

#[test]
fn c001_mark_past_the_run() {
    let mut c = EventChunk::with_capacity(8);
    c.push_ref(MemRef::read(0x1000, 8));
    c.marks.push((3, Event::Phase(0)));
    assert_eq!(codes(&chunk::check_chunk(&c, "golden", 0)), ["CS-C001"]);
}

#[test]
fn c002_marks_go_backwards() {
    let mut c = EventChunk::with_capacity(8);
    c.push_ref(MemRef::read(0x1000, 8));
    c.marks.push((1, Event::Phase(0)));
    c.marks.push((0, Event::Phase(1)));
    assert_eq!(codes(&chunk::check_chunk(&c, "golden", 0)), ["CS-C002"]);
}

#[test]
fn c003_pre_cycles_length_mismatch() {
    let mut c = EventChunk::with_capacity(8);
    c.push_ref(MemRef::read(0x1000, 8));
    c.push_ref(MemRef::read(0x1008, 8));
    c.pre_cycles.push(5);
    assert_eq!(codes(&chunk::check_chunk(&c, "golden", 0)), ["CS-C003"]);
}

#[test]
fn c004_chunk_over_capacity() {
    let mut c = EventChunk::with_capacity(1);
    c.refs.push(MemRef::read(0x1000, 8));
    c.refs.push(MemRef::read(0x1008, 8));
    assert_eq!(codes(&chunk::check_chunk(&c, "golden", 0)), ["CS-C004"]);
}

#[test]
fn c005_access_hidden_in_marks() {
    let mut c = EventChunk::with_capacity(8);
    c.push_ref(MemRef::read(0x1000, 8));
    c.marks.push((1, Event::Access(MemRef::read(0x2000, 8))));
    assert_eq!(codes(&chunk::check_chunk(&c, "golden", 0)), ["CS-C005"]);
}

// --- CS-T: trace framing ----------------------------------------------

#[test]
fn t001_bad_magic() {
    let diags = trace::check_trace(&b"mystery-format 9\n"[..], "golden");
    assert_eq!(codes(&diags), ["CS-T001"]);
    assert_eq!(diags[0].line, 1);
}

#[test]
fn t002_truncated_binary_header() {
    let diags = trace::check_trace(&b"cstrace2\x01\x00"[..], "golden");
    assert_eq!(codes(&diags), ["CS-T002"]);
}

#[test]
fn t003_torn_binary_record() {
    // Valid header (magic, name, empty object table), then 7 bytes of
    // what should have been a 16-byte record.
    let mut bin = Vec::new();
    bin.extend_from_slice(b"cstrace2");
    bin.extend_from_slice(&1u16.to_le_bytes()); // name length
    bin.extend_from_slice(b"g");
    bin.extend_from_slice(&0u32.to_le_bytes()); // object count
    bin.extend_from_slice(&[2u8, 0, 0, 0, 0, 0, 0]); // torn record
    let diags = trace::check_trace(&bin[..], "golden");
    assert_eq!(codes(&diags), ["CS-T003"]);
}

#[test]
fn t004_malformed_text_record() {
    let diags = check_text_trace("A zz 8 R\n");
    assert_eq!(codes(&diags), ["CS-T004"]);
    assert_eq!(diags[0].line, 3);
}

// --- CS-P: PMU configuration ------------------------------------------

fn base_cell() -> Cell {
    Cell {
        index: 0,
        workload: "mgrid".into(),
        scale: Scale::Test,
        label: "golden".into(),
        seed: 1,
        technique: TechniqueConfig::None,
        counters: 10,
        limit: RunLimit::AppMisses(1000),
        faults: FaultConfig::default(),
    }
}

#[test]
fn p001_extent_wraps_address_space() {
    let objs = [ObjectDecl::global("x", u64::MAX, 2)];
    assert_eq!(codes(&pmu::check_objects(&objs, "golden")), ["CS-P001"]);
    // A wrapping allocation gets the same code, at its line.
    let diags = check_text_trace("M fffffffffffff000 8192 w\nF fffffffffffff000\n");
    assert_eq!(codes(&diags), ["CS-P001"]);
    assert_eq!(diags[0].line, 3);
}

#[test]
fn p002_counter_narrower_than_run() {
    let mut c = base_cell();
    c.faults.wrap_bits = 8; // 256 << 1000-miss run
    let diags = pmu::check_cell(&c, "golden");
    assert_eq!(codes(&diags), ["CS-P002"]);
    assert_eq!(diags[0].severity, cachescope_check::Severity::Warning);
}

#[test]
fn p003_zero_sampling_period() {
    let mut c = base_cell();
    c.technique = TechniqueConfig::Sampling(SamplerConfig::fixed(0));
    assert_eq!(codes(&pmu::check_cell(&c, "golden")), ["CS-P003"]);
}

#[test]
fn p004_zero_counters() {
    let mut c = base_cell();
    c.counters = 0;
    assert_eq!(codes(&pmu::check_cell(&c, "golden")), ["CS-P004"]);
}

#[test]
fn p007_counters_above_the_cap() {
    let mut c = base_cell();
    c.counters = 100_000_000_000;
    assert_eq!(codes(&pmu::check_cell(&c, "golden")), ["CS-P007"]);
}

#[test]
fn p005_search_width_outside_its_range() {
    // One region counter is enough: the search timeshares it.
    let mut c = base_cell();
    c.technique = TechniqueConfig::Search(SearchConfig::default());
    c.counters = 1;
    assert!(pmu::check_cell(&c, "golden").is_empty());
    for ways in [0, SearchConfig::MAX_LOGICAL_WAYS + 1] {
        c.technique = TechniqueConfig::Search(SearchConfig {
            logical_ways: Some(ways),
            ..SearchConfig::default()
        });
        assert_eq!(codes(&pmu::check_cell(&c, "golden")), ["CS-P005"], "{ways}");
    }
}

#[test]
fn p006_fault_rate_out_of_range() {
    let mut c = base_cell();
    c.faults.skid_rate = -0.5;
    assert_eq!(codes(&pmu::check_cell(&c, "golden")), ["CS-P006"]);
}

// --- CS-S: campaign specs ---------------------------------------------

fn spec_file(name: &str, body: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("cachescope_check_golden");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    std::fs::write(&p, body).unwrap();
    p
}

const SPEC: &str = r#"{"v": 1, "name": "g", "scale": "test",
    "workloads": ["mgrid"], "seeds": [1],
    "techniques": [{"label": "b",
        "technique": {"kind": "none"},
        "counters": 10,
        "limit": {"kind": "app_misses", "base": 1000, "round": "exact"}}]}"#;

fn one_code(path: &std::path::Path) -> &'static str {
    let diags = campaign::check_campaign_path(path);
    assert_eq!(diags.len(), 1, "{diags:?}");
    diags[0].code
}

#[test]
fn s001_unparsable_file() {
    assert_eq!(one_code(&spec_file("s001.json", "{ nope")), "CS-S001");
}

#[test]
fn s002_unknown_key() {
    let body = SPEC.replace("\"seeds\"", "\"seedz\"");
    assert_eq!(one_code(&spec_file("s002.json", &body)), "CS-S002");
}

#[test]
fn s003_duplicate_key() {
    let body = SPEC.replace(r#""v": 1,"#, r#""v": 1, "v": 1,"#);
    assert_eq!(one_code(&spec_file("s003.json", &body)), "CS-S003");
}

#[test]
fn s004_empty_matrix() {
    let body = SPEC.replace(r#""workloads": ["mgrid"],"#, r#""workloads": [],"#);
    assert_eq!(one_code(&spec_file("s004.json", &body)), "CS-S004");
}

#[test]
fn s005_unknown_technique_kind() {
    let body = SPEC.replace(r#""kind": "none""#, r#""kind": "oracle""#);
    assert_eq!(one_code(&spec_file("s005.json", &body)), "CS-S005");
}

#[test]
fn s006_unknown_workload() {
    let body = SPEC.replace("mgrid", "doom");
    assert_eq!(one_code(&spec_file("s006.json", &body)), "CS-S006");
}

#[test]
fn s007_duplicate_label() {
    let body = SPEC.replace(
        r#""techniques": [{"label": "b","#,
        r#""techniques": [{"label": "b",
            "technique": {"kind": "none"}, "counters": 9,
            "limit": {"kind": "app_misses", "base": 1000, "round": "exact"}},
            {"label": "b","#,
    );
    assert_eq!(one_code(&spec_file("s007.json", &body)), "CS-S007");
}

#[test]
fn s008_content_identical_cells() {
    // Two labels, identical configuration: same content hash.
    let body = SPEC.replace(
        r#""techniques": [{"label": "b","#,
        r#""techniques": [{"label": "a",
            "technique": {"kind": "none"}, "counters": 10,
            "limit": {"kind": "app_misses", "base": 1000, "round": "exact"}},
            {"label": "b","#,
    );
    assert_eq!(one_code(&spec_file("s008.json", &body)), "CS-S008");
}

// --- CS-L: repo self-lint ---------------------------------------------

fn lint_one(src: &str, krate: &str) -> (&'static str, u64) {
    let diags = selflint::lint_source(src, krate, "golden.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    (diags[0].code, diags[0].line)
}

#[test]
fn l001_unwrap() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    assert_eq!(lint_one(src, "obs"), ("CS-L001", 2));
}

#[test]
fn l002_expect() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.expect(\"always\")\n}\n";
    assert_eq!(lint_one(src, "obs"), ("CS-L002", 2));
}

#[test]
fn l003_panic() {
    let src = "fn f() {\n    panic!(\"boom\");\n}\n";
    assert_eq!(lint_one(src, "obs"), ("CS-L003", 2));
}

#[test]
fn l004_wall_clock_in_deterministic_crate() {
    let src = "fn f() {\n    let _ = std::time::Instant::now();\n}\n";
    assert_eq!(lint_one(src, "sim"), ("CS-L004", 2));
}

#[test]
fn l005_os_randomness_in_deterministic_crate() {
    let src = "fn f() {\n    let _ = thread_rng();\n}\n";
    assert_eq!(lint_one(src, "hwpm"), ("CS-L005", 2));
}

#[test]
fn l006_println_in_library() {
    let src = "fn f() {\n    println!(\"hi\");\n}\n";
    let (code, line) = lint_one(src, "obs");
    assert_eq!((code, line), ("CS-L006", 2));
}

#[test]
fn l007_narrowing_cast_in_hot_path_crate() {
    let src = "fn f(x: u64) -> u32 {\n    x as u32\n}\n";
    assert_eq!(lint_one(src, "sim"), ("CS-L007", 2));
    // The same cast is fine outside the hot-path crates.
    assert!(selflint::lint_source(src, "obs", "golden.rs").is_empty());
}

// --- CS-V: serve wire frames ------------------------------------------

fn one_wire_code(stream: &[u8]) -> &'static str {
    let diags = wire::check_wire_stream(stream, "golden.wire");
    assert_eq!(diags.len(), 1, "{diags:?}");
    diags[0].code
}

fn wire_hello(version: u16) -> Vec<u8> {
    let mut payload = version.to_le_bytes().to_vec();
    payload.extend_from_slice(b"{}");
    wire::encode_frame(wire::FrameType::Hello, &payload)
}

#[test]
fn v001_bad_frame_magic() {
    let mut frame = wire::encode_frame(wire::FrameType::Data, b"x");
    frame[0] = b'X';
    assert_eq!(one_wire_code(&frame), "CS-V001");
}

#[test]
fn v002_oversize_frame() {
    let mut frame = wire::encode_frame(wire::FrameType::Data, b"");
    frame[5..9].copy_from_slice(&(wire::FRAME_MAX_PAYLOAD + 1).to_le_bytes());
    assert_eq!(one_wire_code(&frame), "CS-V002");
}

#[test]
fn v003_version_mismatch() {
    assert_eq!(
        one_wire_code(&wire_hello(wire::PROTOCOL_VERSION + 1)),
        "CS-V003"
    );
}

#[test]
fn v004_unknown_frame_type() {
    let mut frame = wire::encode_frame(wire::FrameType::Data, b"");
    frame[4] = 99;
    assert_eq!(one_wire_code(&frame), "CS-V004");
}

#[test]
fn v005_truncated_stream() {
    // Cut mid-header and mid-payload; both are CS-V005.
    let frame = wire::encode_frame(wire::FrameType::Data, b"payload");
    assert_eq!(one_wire_code(&frame[..5]), "CS-V005");
    assert_eq!(one_wire_code(&frame[..frame.len() - 2]), "CS-V005");
}

#[test]
fn clean_wire_stream_has_no_findings() {
    let mut stream = wire_hello(wire::PROTOCOL_VERSION);
    stream.extend(wire::encode_frame(wire::FrameType::Data, b"trace bytes"));
    stream.extend(wire::encode_frame(wire::FrameType::End, b""));
    assert!(wire::check_wire_stream(&stream, "golden.wire").is_empty());
}

// --- CS-O: profile outputs --------------------------------------------

#[test]
fn o001_malformed_timeline_line() {
    let diags = profile::check_timeline_str("golden", "not json\n");
    assert_eq!(codes(&diags), ["CS-O001"]);
    assert_eq!(diags[0].line, 1);
}

#[test]
fn o002_non_monotonic_timeline_windows() {
    let text = concat!(
        r#"{"window":1,"start_cycle":100,"end_cycle":200,"refs":1,"misses":0,"degraded":false,"top":[]}"#,
        "\n",
        r#"{"window":0,"start_cycle":200,"end_cycle":300,"refs":1,"misses":0,"degraded":false,"top":[]}"#,
        "\n",
    );
    let diags = profile::check_timeline_str("golden", text);
    assert_eq!(codes(&diags), ["CS-O002"]);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn o003_unbalanced_span() {
    let diags = profile::check_spans_str("golden", r#"{"ev":"close","name":"run","t":0}"#);
    assert_eq!(codes(&diags), ["CS-O003"]);
    assert_eq!(diags[0].line, 1);
}

#[test]
fn o004_span_timestamp_regression() {
    let text = concat!(
        r#"{"ev":"open","name":"a","t":10}"#,
        "\n",
        r#"{"ev":"close","name":"a","t":4}"#,
        "\n",
    );
    let diags = profile::check_spans_str("golden", text);
    assert!(codes(&diags).contains(&"CS-O004"), "{diags:?}");
}

// --- CS-F: fuzz artifacts ---------------------------------------------

fn fuzz_codes(body: &str) -> Vec<&'static str> {
    let v = json::parse(body).expect("golden fuzz JSON parses");
    codes(&fuzz::check_fuzz_json(&v, "golden"))
}

#[test]
fn f001_unknown_artifact_kind() {
    assert_eq!(fuzz_codes(r#"{"kind":"banana"}"#), ["CS-F001"]);
}

#[test]
fn f002_verdict_missing_findings() {
    let body = r#"{"kind":"fuzz_verdict","v":1,"seed_base":0,"seeds":1,
        "budget_refs":1000,"scenarios":1,"new_silent":0}"#;
    assert_eq!(fuzz_codes(body), ["CS-F002"]);
}

#[test]
fn f003_golden_with_invalid_scenario() {
    let body = r#"{"kind":"fuzz_golden","v":1,"name":"g","technique":"sample+h",
        "level":"skid","expected":{"min_inversions":2,"max_degraded":0},
        "scenario":{"kind":"fuzz_scenario","v":1,"name":"s","seed":1,"budget_refs":10,
                    "targets":[],"phases":[]}}"#;
    assert_eq!(fuzz_codes(body), ["CS-F003"]);
}

#[test]
fn f004_silent_finding_with_degraded_objects() {
    let body = r#"{"kind":"fuzz_verdict","v":1,"seed_base":0,"seeds":1,
        "budget_refs":1000,"scenarios":1,"new_silent":0,"findings":[
          {"scenario":"fuzz:0:1000","technique":"sample+h","level":"skid",
           "inversions":3,"baseline_inversions":1,"degraded":2,"silent":true}]}"#;
    assert_eq!(fuzz_codes(body), ["CS-F004"]);
}

#[test]
fn f005_unresolved_silent_inversion_warns() {
    let body = r#"{"kind":"fuzz_verdict","v":1,"seed_base":0,"seeds":1,
        "budget_refs":1000,"scenarios":1,"new_silent":1,"findings":[]}"#;
    assert_eq!(fuzz_codes(body), ["CS-F005"]);
}

// --- CS-A: static bounds oracle ---------------------------------------

/// Line stride that stays in one set of the default monitored cache
/// (2 MiB, 64 B lines, 4-way: 8192 sets, so one way is 512 KiB).
const SET_STRIDE: u64 = 8192 * 64;

fn sweep(a: &mut Analyzer, base: u64, lines: u64, rounds: u64) {
    for r in 0..rounds {
        a.access(&MemRef::read(base + (r % lines) * SET_STRIDE, 8));
    }
}

#[test]
fn a001_provable_thrash() {
    // Five same-set lines round-robin in a 4-way set: every access past
    // the warmup has stack distance 4 and is a certain miss.
    let mut a = Analyzer::new("golden", AnalyzeConfig::default());
    a.declare_static(&ObjectDecl::global("spin", 0x1_0000, 4 * SET_STRIDE + 64));
    sweep(&mut a, 0x1_0000, 5, 1200);
    let diags = bounds::pathology_diagnostics(&a.finish(), "golden");
    assert_eq!(codes(&diags), ["CS-A001"]);
}

#[test]
fn a002_provable_set_alias() {
    // Two disjoint hot objects whose lines all land in the same set;
    // accessed one after the other so neither thrashes on its own.
    let mut a = Analyzer::new("golden", AnalyzeConfig::default());
    let (base_a, base_b) = (0x1_0000, 0x1_0000 + 3 * SET_STRIDE);
    a.declare_static(&ObjectDecl::global("left", base_a, 2 * SET_STRIDE + 64));
    a.declare_static(&ObjectDecl::global("right", base_b, 2 * SET_STRIDE + 64));
    sweep(&mut a, base_a, 3, 1200);
    sweep(&mut a, base_b, 3, 1200);
    let diags = bounds::pathology_diagnostics(&a.finish(), "golden");
    assert_eq!(codes(&diags), ["CS-A002"]);
}

#[test]
fn a003_phase_working_set_over_capacity() {
    // One more distinct line than the cache holds, then enough cheap
    // re-hits that the compulsory misses stay under the thrash ratio.
    let mut a = Analyzer::new("golden", AnalyzeConfig::default());
    let lines = 2 * 1024 * 1024 / 64 + 1;
    a.declare_static(&ObjectDecl::global("wide", 0x1_0000, lines * 64));
    for i in 0..lines {
        a.access(&MemRef::read(0x1_0000 + i * 64, 8));
    }
    for _ in 0..2 * lines {
        a.access(&MemRef::read(0x1_0000 + (lines - 1) * 64, 8));
    }
    let diags = bounds::pathology_diagnostics(&a.finish(), "golden");
    assert_eq!(codes(&diags), ["CS-A003"]);
}

fn cold_sweep_bounds() -> cachescope_analyze::BoundsReport {
    let mut a = Analyzer::new("golden", AnalyzeConfig::default());
    a.declare_static(&ObjectDecl::global("arr", 0x1000, 64 * 64));
    for i in 0..64u64 {
        a.access(&MemRef::read(0x1000 + i * 64, 8));
    }
    a.finish()
}

#[test]
fn a004_report_outside_provable_bounds() {
    // 64 cold misses are provable; a report attributing only half of
    // them to the object is a corrupted engine result.
    let b = cold_sweep_bounds();
    let report = Json::obj(vec![
        (
            "rows",
            Json::Arr(vec![Json::obj(vec![
                ("object", Json::str("arr")),
                ("actual_pct", Json::Float(50.0)),
            ])]),
        ),
        (
            "costs",
            Json::obj(vec![
                ("app_misses", Json::Uint(64)),
                ("unmapped_misses", Json::Uint(0)),
            ]),
        ),
    ]);
    let diags = bounds::check_report_bounds(&report, &b, "golden");
    assert!(!diags.is_empty());
    assert!(diags.iter().all(|d| d.code == "CS-A004"), "{diags:?}");
}

#[test]
fn a005_provably_unattributable_stream() {
    let mut a = Analyzer::new("golden", AnalyzeConfig::default());
    a.access(&MemRef::read(0xdead_0000, 8));
    let d = bounds::unattributable(&a.finish(), "golden").expect("unattributable");
    assert_eq!(d.code, "CS-A005");
    assert!(bounds::unattributable(&cold_sweep_bounds(), "golden").is_none());
}

//! Static audit of `unsafe` usage across the workspace.
//!
//! The reproduction deliberately confines unsafety to the shared-memory
//! layer (see `crates/core/src/shared.rs` module docs). This test enforces
//! that confinement mechanically:
//!
//! 1. `unsafe` may appear only in whitelisted modules;
//! 2. every `unsafe` site must carry an adjacent `// SAFETY:` comment
//!    stating why it is sound;
//! 3. every workspace crate root must carry `#![deny(unsafe_op_in_unsafe_fn)]`.
//!
//! The scanner is intentionally line-based and conservative: commented-out
//! code does not trip it, but it has no full parser — if it ever
//! misclassifies a line, adjust the code (or the whitelist) rather than the
//! scanner.
//!
//! A second audit enforces the *synchronization* confinement that the
//! verification stack depends on: production code may not reach for
//! `std::sync` / `std::thread` directly — all synchronization and shared
//! memory must flow through the [`Env`] trait, or `SchedEnv`'s schedule
//! exploration and `CheckedEnv`'s race detection silently lose sight of it.
//! Only the modules that *implement* that layer (and the serve layer's
//! thread-owning edges) are whitelisted; `#[cfg(test)]` items are exempt because
//! unit tests drive the layer from outside it.
//!
//! A third keeps every setting on the command line: nothing under `crates/`
//! or `src/` reads an environment variable.
//!
//! A fourth keeps process-global state out of `bh-core`: no `static` item
//! outside `thread_local!`. A global flag is a setting no command line
//! shows, and a test that flips one changes the code every other test in
//! its process runs.
//!
//! A fifth keeps the measured code's shared accesses charged: what a
//! step's timed phases run (the builders, the tree, the world, the force,
//! partition and update phases and the pipeline) uses no untimed accessor
//! outside a short list of functions that run outside the steps.

use std::path::{Path, PathBuf};

/// Modules allowed to contain `unsafe` (path suffixes, `/`-separated).
/// A trailing `/` whitelists a directory.
const WHITELIST: &[&str] = &[
    "crates/core/src/shared.rs",
    "crates/core/src/tree/",
    "crates/core/src/env.rs",
    "crates/core/src/harness.rs",
    "crates/ssmp/src/machine.rs",
    // The calls into the AVX-512 force evaluator and list builder,
    // `#[target_feature]` functions (calling one is `unsafe` even when the
    // crate is built with the feature), and the list builder's unaligned
    // vector store.
    "crates/core/src/force/avx512.rs",
];

/// Modules allowed to use `std::sync` / `std::thread` directly: the layer
/// that implements the `Env` abstraction (plus the serve layer's
/// thread-owning edges, which manage OS threads rather than simulated procs).
/// Everything else must synchronize through `Env`, where the schedule
/// explorer and race checker can see it.
const SYNC_WHITELIST: &[&str] = &[
    "crates/core/src/sync.rs",
    "crates/core/src/env.rs",
    "crates/core/src/harness.rs",
    "crates/core/src/shared.rs",
    "crates/core/src/sched.rs",
    "crates/ssmp/src/machine.rs",
    // The simulator's two protocols, part of its `Env` implementation.
    "crates/ssmp/src/machine/eager.rs",
    "crates/ssmp/src/machine/hlrc.rs",
    // The serve layer's thread-owning edges: executor workers + condvars
    // (server.rs), per-connection socket reader threads (transport.rs),
    // and the client's sleep between connect retries (client.rs).
    // These are host-side service plumbing around the Env-confined
    // simulation core; job *logic* (queue.rs, cache.rs, exec.rs, job.rs,
    // protocol.rs) stays off this list deliberately.
    "crates/serve/src/server.rs",
    "crates/serve/src/transport.rs",
    "crates/serve/src/client.rs",
];

/// Crate roots that must opt in to `deny(unsafe_op_in_unsafe_fn)`.
const CRATE_ROOTS: &[&str] = &[
    "src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/ssmp/src/lib.rs",
    "crates/serve/src/lib.rs",
    "crates/experiments/src/lib.rs",
];

/// How many preceding code lines may separate a `// SAFETY:` comment from
/// its `unsafe` site.
const SAFETY_WINDOW: usize = 3;

#[derive(Debug, PartialEq)]
enum Violation {
    /// `unsafe` outside the whitelist.
    OutsideWhitelist { line: usize },
    /// Whitelisted `unsafe` without an adjacent `// SAFETY:` comment.
    MissingSafetyComment { line: usize },
}

/// True if the (comment-stripped) line contains `unsafe` as a word.
fn mentions_unsafe(code: &str) -> bool {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|tok| tok == "unsafe")
}

/// Strip line comments and (approximately) string literals, so `unsafe`
/// inside docs, comments or message strings does not count.
fn code_portion(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

/// Scan one file's source text for unsafe-audit violations.
fn scan_source(src: &str, whitelisted: bool) -> Vec<Violation> {
    let lines: Vec<&str> = src.lines().collect();
    let mut violations = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        let code = code_portion(raw);
        if !mentions_unsafe(&code) {
            continue;
        }
        // The deny attribute itself and `unsafe_op_in_unsafe_fn` in cfgs
        // are not unsafe code.
        if code.contains("unsafe_op_in_unsafe_fn") {
            continue;
        }
        if !whitelisted {
            violations.push(Violation::OutsideWhitelist { line: i + 1 });
            continue;
        }
        // Look for `SAFETY:` on this line or within the preceding window
        // (comment lines in between don't consume the window).
        let mut found = raw.contains("SAFETY:");
        let mut code_lines_seen = 0;
        for j in (0..i).rev() {
            if lines[j].contains("SAFETY:") {
                found = true;
                break;
            }
            if !code_portion(lines[j]).trim().is_empty() {
                code_lines_seen += 1;
                if code_lines_seen >= SAFETY_WINDOW {
                    break;
                }
            }
        }
        if !found {
            violations.push(Violation::MissingSafetyComment { line: i + 1 });
        }
    }
    violations
}

fn is_whitelisted(rel: &str) -> bool {
    WHITELIST.iter().any(|w| {
        if w.ends_with('/') {
            rel.starts_with(w)
        } else {
            rel == *w
        }
    })
}

/// The production lines of a file, as `(line number, code portion)`:
/// every line outside `#[cfg(test)]` items. An item ends where its braces
/// close, or at its `;` if it opens none. A `#[cfg(test)] mod` ends the
/// file: by repo convention the unit-test module is the last item, and its
/// code is not brace-counted.
fn production_lines(src: &str) -> Vec<(usize, String)> {
    let mut lines = Vec::new();
    // Inside a `#[cfg(test)]` item: its brace depth, and whether it opened one.
    let mut test_item: Option<(i32, bool)> = None;
    for (i, raw) in src.lines().enumerate() {
        let mut code = code_portion(raw);
        if test_item.is_none() {
            let Some(at) = code.find("#[cfg(test)]") else {
                lines.push((i + 1, code));
                continue;
            };
            code.drain(..at + "#[cfg(test)]".len());
            test_item = Some((0, false));
        }
        let item = code.trim_start();
        if item.starts_with("mod ") || item.starts_with("pub mod ") {
            break;
        }
        let (depth, opened) = test_item.as_mut().unwrap();
        let opens = code.matches('{').count() as i32;
        *depth += opens - code.matches('}').count() as i32;
        *opened |= opens > 0;
        let ended = if *opened {
            *depth <= 0
        } else {
            code.trim_end().ends_with(';')
        };
        if ended {
            test_item = None;
        }
    }
    lines
}

/// Scan one file for direct `std::sync` / `std::thread` references in
/// production code. Test code is exempt: it legitimately uses host threads
/// to exercise the `Env` layer from outside.
fn scan_sync(src: &str) -> Vec<usize> {
    production_lines(src)
        .into_iter()
        .filter(|(_, code)| code.contains("std::sync") || code.contains("std::thread"))
        .map(|(line, _)| line)
        .collect()
}

/// Untimed accessors of the shared containers and the tree.
const UNTIMED: &[&str] = &[".peek(", ".poke(", "peek_cell", "peek_leaf", "peek_child"];

/// The measured code, relative to `crates/core/src` (a trailing `/` is a
/// directory): every file a step's timed phases run.
const MEASURED: &[&str] = &[
    "algorithms/",
    "tree/",
    "world.rs",
    "force.rs",
    "partition.rs",
    "update_phase.rs",
    "pipeline.rs",
];

/// Files under [`MEASURED`] that no step runs.
const UNMEASURED: &[&str] = &[
    // Untimed structural checks of a finished run.
    "tree/validate.rs",
];

/// Functions of the measured files that may use an untimed accessor, each
/// with the reason. A trailing `*` matches a name prefix.
const UNTIMED_FNS: &[(&str, &str)] = &[
    (
        "reset",
        "single-threaded engine setup between jobs, before any step",
    ),
    ("snapshot", "copies the final bodies out after a run"),
    (
        "positions",
        "copies positions out for validation after a run",
    ),
    ("masses", "copies masses out for validation after a run"),
    (
        "peek_*",
        "the untimed accessors themselves, for setup and validation",
    ),
    (
        "pending_peek",
        "the untimed pending-counter read, for validation",
    ),
    (
        "cells_allocated",
        "counts the cells a finished build allocated",
    ),
    (
        "leaves_allocated",
        "counts the leaves a finished build allocated",
    ),
    (
        "children",
        "loads the eight slots, then charges them as one 32-byte access",
    ),
];

/// The name of the function a production line sits in: the last `fn`
/// declared at or above it.
fn enclosing_fns(lines: &[(usize, String)]) -> Vec<Option<String>> {
    let mut current = None;
    lines
        .iter()
        .map(|(_, code)| {
            let decl = code
                .split_once("fn ")
                .filter(|(before, _)| before.is_empty() || before.ends_with([' ', '(']));
            if let Some((_, rest)) = decl {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    current = Some(name);
                }
            }
            current.clone()
        })
        .collect()
}

fn untimed_fn_allowed(name: &str) -> bool {
    UNTIMED_FNS
        .iter()
        .any(|(pat, _)| match pat.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => name == *pat,
        })
}

/// Lines of production code that use an untimed accessor, outside
/// `debug_assert` lines (checks that only debug builds make must not charge
/// cycles that release builds do not) and outside [`UNTIMED_FNS`].
fn scan_untimed(src: &str) -> Vec<usize> {
    let lines = production_lines(src);
    let fns = enclosing_fns(&lines);
    lines
        .into_iter()
        .zip(fns)
        .filter(|((_, code), _)| !code.contains("debug_assert"))
        .filter(|((_, code), _)| UNTIMED.iter().any(|pat| code.contains(pat)))
        .filter(|(_, name)| !name.as_deref().is_some_and(untimed_fn_allowed))
        .map(|((line, _), _)| line)
        .collect()
}

/// Lines that read an environment variable (`env::var`, `var_os`, `vars`).
/// `std::env::args` and the compile-time `env!` macro do not count.
fn scan_env(src: &str) -> Vec<usize> {
    src.lines()
        .enumerate()
        .filter(|(_, raw)| code_portion(raw).contains("env::var"))
        .map(|(i, _)| i + 1)
        .collect()
}

/// Lines that declare a `static` item outside a `thread_local!` block.
/// `'static` lifetimes and the word in comments or strings do not count.
fn scan_static(src: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    // Brace depth inside a `thread_local!` invocation, if in one.
    let mut thread_local: Option<i32> = None;
    for (i, raw) in src.lines().enumerate() {
        let code = code_portion(raw);
        if thread_local.is_none() && code.contains("thread_local!") {
            thread_local = Some(0);
        }
        if let Some(depth) = thread_local.as_mut() {
            *depth += code.matches('{').count() as i32 - code.matches('}').count() as i32;
            if *depth <= 0 && code.contains('}') {
                thread_local = None;
            }
            continue;
        }
        let item = code.trim_start();
        let item = match item.strip_prefix("pub") {
            Some(rest) if rest.starts_with(' ') => rest.trim_start(),
            Some(rest) if rest.starts_with('(') => rest.split_once(')').map_or(rest, |r| r.1),
            _ => item,
        };
        if item.trim_start().starts_with("static ") {
            hits.push(i + 1);
        }
    }
    hits
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_unsafe_is_whitelisted_and_documented() {
    let root = repo_root();
    let mut files = Vec::new();
    // Everything the workspace builds: library sources, the examples and
    // these integration tests themselves.
    for sub in ["crates", "src", "examples", "tests"] {
        collect_rs_files(&root.join(sub), &mut files);
    }
    assert!(
        files.len() >= 20,
        "audit walked too few files: {}",
        files.len()
    );

    let mut failures = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        for v in scan_source(&src, is_whitelisted(&rel)) {
            match v {
                Violation::OutsideWhitelist { line } => failures.push(format!(
                    "{rel}:{line}: `unsafe` outside the whitelisted modules"
                )),
                Violation::MissingSafetyComment { line } => failures.push(format!(
                    "{rel}:{line}: `unsafe` without an adjacent `// SAFETY:` comment"
                )),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "unsafe audit failed:\n  {}\nEither document the site with a `// SAFETY:` comment, move it \
         into the shared-memory layer, or (deliberately) extend the whitelist in tests/unsafe_audit.rs.",
        failures.join("\n  ")
    );
}

/// All synchronization in production code flows through `Env`. A direct
/// `std::sync` / `std::thread` use outside the layer that implements the
/// abstraction is invisible to `SchedEnv` (schedule exploration cannot
/// interleave at it) and to `CheckedEnv` (it creates happens-before edges
/// the detector never sees) — so it is a correctness hole in the entire
/// verification stack, not a style nit.
#[test]
fn production_code_synchronizes_only_through_env() {
    let root = repo_root();
    let mut files = Vec::new();
    for sub in ["crates", "src"] {
        collect_rs_files(&root.join(sub), &mut files);
    }
    let mut failures = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        if SYNC_WHITELIST.contains(&rel.as_str()) {
            continue;
        }
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        for line in scan_sync(&src) {
            failures.push(format!(
                "{rel}:{line}: direct std::sync / std::thread use outside the Env layer"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "sync confinement audit failed:\n  {}\nRoute the synchronization through the Env trait so \
         the schedule explorer and race checker can observe it, or (deliberately) extend \
         SYNC_WHITELIST in tests/unsafe_audit.rs.",
        failures.join("\n  ")
    );
}

/// Every setting is an argument: a knob read from the environment is
/// invisible in the command line that reproduces a number.
#[test]
fn production_code_reads_no_environment_variables() {
    let root = repo_root();
    let mut files = Vec::new();
    for sub in ["crates", "src"] {
        collect_rs_files(&root.join(sub), &mut files);
    }
    let mut failures = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(&root).unwrap().to_string_lossy();
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        for line in scan_env(&src) {
            failures.push(format!("{rel}:{line}: reads an environment variable"));
        }
    }
    assert!(
        failures.is_empty(),
        "environment audit failed:\n  {}\nTake the setting as a command-line argument instead.",
        failures.join("\n  ")
    );
}

/// No process-global state in `bh-core`: per-thread statics only.
#[test]
fn core_declares_no_global_static() {
    let root = repo_root();
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates/core/src"), &mut files);
    let mut failures = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(&root).unwrap().to_string_lossy();
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        for line in scan_static(&src) {
            failures.push(format!("{rel}:{line}: `static` item outside thread_local!"));
        }
    }
    assert!(
        failures.is_empty(),
        "global-state audit failed:\n  {}\nPass the value as an argument, or keep it per \
         thread inside thread_local!.",
        failures.join("\n  ")
    );
}

/// `SharedVec::peek`/`poke` and the tree's `peek_cell`, `peek_leaf` and
/// `peek_child` read or write shared memory without telling the `Env`: no
/// simulated cycles, no miss, no race-detector event. They are for untimed
/// setup, validation and tests. Measured code that uses one gets that
/// access for free on every simulated platform, and the schedule explorer
/// and race checker never see it.
#[test]
fn builders_use_no_untimed_accessor_in_measured_code() {
    let src_dir = repo_root().join("crates/core/src");
    let mut files = Vec::new();
    for rel in MEASURED {
        match rel.strip_suffix('/') {
            Some(dir) => collect_rs_files(&src_dir.join(dir), &mut files),
            None => files.push(src_dir.join(rel)),
        }
    }
    files.retain(|path| !UNMEASURED.iter().any(|rel| path.ends_with(rel)));
    assert!(files.len() >= 15, "audit walked too few files: {files:?}");
    let mut failures = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(&src_dir).unwrap().to_string_lossy();
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        for line in scan_untimed(&src) {
            failures.push(format!("{rel}:{line}: untimed shared access"));
        }
    }
    assert!(
        failures.is_empty(),
        "untimed-access audit failed:\n  {}\nUse the timed accessor (`load`, `store`, \
         `load_cell`, `child`, ...) so the access is charged and checked.",
        failures.join("\n  ")
    );
}

#[test]
fn crate_roots_deny_unsafe_op_in_unsafe_fn() {
    let root = repo_root();
    for rel in CRATE_ROOTS {
        let src =
            std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        assert!(
            src.contains("#![deny(unsafe_op_in_unsafe_fn)]"),
            "{rel}: missing #![deny(unsafe_op_in_unsafe_fn)]"
        );
    }
}

// ---- scanner self-tests on synthetic sources ------------------------------

#[test]
fn scanner_accepts_documented_unsafe_in_whitelisted_module() {
    let src = "fn f(x: &UnsafeCell<u32>) -> u32 {\n    // SAFETY: caller holds the lock.\n    unsafe { *x.get() }\n}\n";
    assert_eq!(scan_source(src, true), vec![]);
}

#[test]
fn scanner_rejects_undocumented_unsafe() {
    let src = "fn f(x: &UnsafeCell<u32>) -> u32 {\n    unsafe { *x.get() }\n}\n";
    assert_eq!(
        scan_source(src, true),
        vec![Violation::MissingSafetyComment { line: 2 }]
    );
}

#[test]
fn scanner_rejects_unsafe_outside_whitelist_even_with_comment() {
    let src = "// SAFETY: trust me.\nunsafe impl Sync for Foo {}\n";
    assert_eq!(
        scan_source(src, false),
        vec![Violation::OutsideWhitelist { line: 2 }]
    );
}

#[test]
fn scanner_safety_window_is_bounded() {
    // The SAFETY comment is 4 code lines above the site: out of range.
    let src =
        "// SAFETY: stale.\nlet a = 1;\nlet b = 2;\nlet c = 3;\nlet d = 4;\nunsafe { go() }\n";
    assert_eq!(
        scan_source(src, true),
        vec![Violation::MissingSafetyComment { line: 6 }]
    );
}

#[test]
fn scanner_ignores_comments_and_strings() {
    let src = "// unsafe in a comment\nlet s = \"unsafe in a string\";\n/// docs about unsafe\nlet unsafety = 1; // not the keyword\n";
    assert_eq!(scan_source(src, false), vec![]);
}

#[test]
fn sync_scanner_flags_production_uses_only() {
    let src = "use std::sync::Mutex;\nfn f() { std::thread::spawn(|| {}); }\n\
               // std::sync in a comment is fine\n\
               let s = \"std::thread in a string\";\n\
               #[cfg(test)]\nmod tests {\n    use std::sync::Arc; // exempt\n}\n";
    assert_eq!(scan_sync(src), vec![1, 2]);
}

#[test]
fn sync_scanner_reads_past_test_items_in_mid_file() {
    let src = "#[cfg(test)]\nfn helper() {\n    std::thread::yield_now();\n}\n\
               #[cfg(test)]\nuse std::sync::Arc;\n\
               fn f() { let m = std::sync::Mutex::new(0); }\n\
               #[cfg(test)] fn g() { std::thread::yield_now(); }\n\
               use std::sync::Once;\n\
               #[cfg(test)]\nmod tests {\n    use std::sync::Arc;\n}\n";
    assert_eq!(scan_sync(src), vec![7, 9]);
}

#[test]
fn untimed_scanner_skips_comments_debug_asserts_and_tests() {
    let src = "let a = v.peek(0);\n\
               // v.poke(0, 1);\n\
               debug_assert_eq!(tree.peek_child(c, 0), l);\n\
               let s = \"peek_cell\";\n\
               let p = tree.peek_cell(c).parent;\n\
               #[cfg(test)]\n\
               fn poison(&self) {\n\
               self.v.poke(0, 1);\n\
               }\n\
               fn load(&self) -> u32 { self.v.peek(0) }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               let b = v.peek(1);\n";
    assert_eq!(scan_untimed(src), [1, 5, 10]);
}

#[test]
fn untimed_scanner_exempts_the_named_functions_only() {
    let src = "pub fn reset(&self) {\n    self.n.poke(0, 0);\n}\n\
               pub fn peek_leaf(&self, r: NodeRef) -> Leaf {\n    self.leaves.peek(r.0)\n}\n\
               fn zone(&self) -> u32 {\n    self.z.peek(0)\n}\n\
               fn reset_for_rebuild(&self) {\n    self.n.poke(0, 0);\n}\n";
    assert_eq!(scan_untimed(src), [8, 11]);
}

#[test]
fn env_scanner_flags_variable_reads_only() {
    let src = "let a = std::env::var(\"A\");\nlet b = env::var_os(\"B\");\n\
               let args = std::env::args();\nlet dir = env!(\"CARGO_MANIFEST_DIR\");\n\
               // env::var in a comment is fine\n\
               let s = \"env::var in a string\";\n";
    assert_eq!(scan_env(src), vec![1, 2]);
}

#[test]
fn scanner_flags_unsafe_impls_and_fns() {
    let src = "unsafe impl Send for A {}\nunsafe fn raw() {}\n";
    let vs = scan_source(src, true);
    assert_eq!(
        vs,
        vec![
            Violation::MissingSafetyComment { line: 1 },
            Violation::MissingSafetyComment { line: 2 }
        ]
    );
}

#[test]
fn static_scanner_flags_global_items_only() {
    let src = "static A: u32 = 0;\npub static B: AtomicBool = AtomicBool::new(false);\n\
               pub(crate) static mut C: u64 = 0;\n\
               thread_local! {\n    static D: Cell<u64> = const { Cell::new(0) };\n}\n\
               fn f(s: &'static str) {}\n\
               // static in a comment is fine\n\
               let s = \"static in a string\";\n\
               thread_local! { static E: u8 = 0; }\n\
               static F: u8 = 0;\n";
    assert_eq!(scan_static(src), vec![1, 2, 3, 11]);
}
